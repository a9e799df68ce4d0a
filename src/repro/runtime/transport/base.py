"""The Transport contract: delivery, registration, accounting, reset.

This module holds everything the runtime's two message transports — the
in-process :class:`~repro.runtime.network.SimNetwork` simulation and the
per-process TCP backend in :mod:`repro.runtime.transport.tcp` — share:

* the :class:`Message` envelope (kind, src, dst, payload, data labels,
  idempotency key, channel sequence number);
* the :class:`ReliableChannel`, the one sans-I/O implementation of
  Section 3.1's reliable in-order channels over a lossy wire (stamping,
  the retry schedule over an injected wait, the receiver's reply cache
  and control holdback);
* the one frame codec (:func:`encode_frame` / :func:`decode_frame`)
  every reader of the host wire and the gateway shares;
* the :class:`CostModel` and the Table 1 accounting core (message
  counts, the simulated clock, check/hash charges, flow/audit/message
  logs, fault events, the quarantine blacklist);
* the fail-closed error taxonomy (:class:`DeliveryTimeoutError`,
  :class:`SecurityAbort`), each carrying (channel, src, dst, seq,
  msg-kind) context so a serve-mode operator can attribute a failure
  to a specific exchange;
* the abstract delivery surface a :class:`~repro.runtime.host.
  TrustedHost` programs against: ``request`` (synchronous round trip),
  ``one_way`` (single acknowledged message), ``post`` (queue a control
  transfer), ``pop_control`` (the executor loop's feed), ``register``
  (handler + crash/restart hooks).

The accounting lives in the base class on purpose: the simulated and
the TCP backend must charge identically — a ``getField`` costs two
messages and two one-way latencies on both — or the distributed run's
observables drift from the Table 1 oracle.  In the TCP backend each
host process accounts only what it locally sends and validates; because
the partitioned program has a single thread of control, summing the
per-host subtotals reproduces the global simulated clock (up to float
rounding in the last bits).
"""

from __future__ import annotations

import itertools
import json
import struct
from collections import Counter, deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

#: Message kinds that transfer control (one message each).
CONTROL_KINDS = ("rgoto", "lgoto")
#: Message kinds that are request/reply round trips (two messages each).
ROUNDTRIP_KINDS = ("getField", "setField", "forward", "sync")
#: Table 1's rows, in its order.
TABLE_KINDS = ("forward", "getField", "setField", "sync", "lgoto", "rgoto")


class CostModel:
    """Simulated-time costs, calibrated to the Section 7.2 testbed."""

    def __init__(
        self,
        one_way_latency: float = 320e-6,
        check_cost: float = 5e-6,
        hash_cost: float = 100e-6,
        op_cost: float = 1e-6,
    ) -> None:
        #: one-way application-to-application latency over SSL (the paper
        #: measured a ≥640 µs round trip for a null RMI call over SSL).
        self.one_way_latency = one_way_latency
        #: validating one incoming request (access control, digest).
        self.check_cost = check_cost
        #: hashing a capability token (MD5 in the paper).
        self.hash_cost = hash_cost
        #: executing one local operation.
        self.op_cost = op_cost


#: the ``data_labels`` of every message that carries no labeled data.
_NO_LABELS: Tuple = ()


class Message:
    """One network message."""

    __slots__ = ("kind", "src", "dst", "payload", "data_labels", "msg_id",
                 "seq")

    def __init__(
        self,
        kind: str,
        src: str,
        dst: str,
        payload: Dict[str, Any],
        data_labels: Optional[Sequence] = None,
        msg_id: Optional[int] = None,
        seq: Optional[int] = None,
    ) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.payload = payload
        #: labels of confidential data carried (for instrumentation);
        #: a label-free message shares one empty tuple.
        self.data_labels = data_labels or _NO_LABELS
        #: idempotency key: retransmissions and duplicates share it, so
        #: receivers can suppress re-execution (None on reliable nets).
        self.msg_id = msg_id
        #: per-(src, dst) channel sequence number.
        self.seq = seq

    def __repr__(self) -> str:
        return f"Message({self.kind} {self.src}->{self.dst})"


class DeliveryTimeoutError(RuntimeError):
    """A message exhausted its retry budget: the run fails closed.

    Carries (channel, src, dst, seq, msg-kind) context so a serve-mode
    operator can attribute the failure to a specific exchange.
    """

    def __init__(self, message: Message, attempts: int) -> None:
        super().__init__(
            f"{message.kind} {message.src}->{message.dst} undeliverable "
            f"after {attempts} attempts "
            f"(channel {message.src}->{message.dst}, seq {message.seq}, "
            f"msg #{message.msg_id}, kind {message.kind}); failing closed"
        )
        self.message_kind = message.kind
        self.src = message.src
        self.dst = message.dst
        self.channel = (message.src, message.dst)
        self.seq = message.seq
        self.msg_id = message.msg_id
        self.attempts = attempts


class SecurityAbort(RuntimeError):
    """A detected protocol violation terminated the run fail-closed.

    Raised by the quarantine layer (Section 3.2's threat model: a bad
    host gains nothing, and good hosts stop talking to it) instead of
    letting a rejected request silently stall the executor.  Carries
    the offending host (``None`` when the violation is local, e.g.
    tampered stable storage discovered during recovery), the host that
    detected it, and — when the violation is tied to a specific
    message — the (channel, src, dst, seq, msg-kind) of that exchange.
    """

    def __init__(
        self,
        offender: Optional[str],
        victim: Optional[str],
        why: str,
        message: Optional[Message] = None,
    ) -> None:
        detail = (
            f"security abort ({offender or 'local'} vs {victim or '?'}): "
            f"{why}"
        )
        if message is not None:
            self.channel: Optional[Tuple[str, str]] = (
                message.src, message.dst
            )
            self.src: Optional[str] = message.src
            self.dst: Optional[str] = message.dst
            self.seq: Optional[int] = message.seq
            self.msg_id: Optional[int] = message.msg_id
            self.msg_kind: Optional[str] = message.kind
            detail += (
                f" [channel {message.src}->{message.dst}, "
                f"seq {message.seq}, kind {message.kind}]"
            )
        else:
            self.channel = None
            self.src = None
            self.dst = None
            self.seq = None
            self.msg_id = None
            self.msg_kind = None
        super().__init__(detail)
        self.offender = offender
        self.victim = victim
        self.why = why


#: the frame header: the body's length as a 4-byte big-endian integer.
FRAME_HEADER = struct.Struct(">I")
#: refuse frames over 64 MiB — a length prefix from a confused or
#: malicious peer must not allocate unbounded memory.
MAX_FRAME = 64 * 1024 * 1024


class FrameError(ConnectionError):
    """A frame over the cap, or not a JSON object: the stream is lost."""


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """One length-prefixed JSON frame, ready for the wire."""
    body = json.dumps(frame, separators=(",", ":")).encode("utf-8")
    return FRAME_HEADER.pack(len(body)) + body


def decode_frame(buf: bytes) -> Tuple[Optional[Dict[str, Any]], int]:
    """Decode the frame at the front of ``buf``: ``(frame, size)`` once
    ``buf`` holds all ``size`` bytes of it, else ``(None, size)`` with
    the byte count to read up to before decoding again."""
    if len(buf) < FRAME_HEADER.size:
        return None, FRAME_HEADER.size
    (length,) = FRAME_HEADER.unpack_from(buf)
    if length > MAX_FRAME:
        raise FrameError(f"frame of {length} bytes exceeds the cap")
    size = FRAME_HEADER.size + length
    if len(buf) < size:
        return None, size
    try:
        frame = json.loads(buf[FRAME_HEADER.size:size].decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise FrameError(f"undecodable frame: {error}") from None
    if not isinstance(frame, dict):
        raise FrameError("frame is not a JSON object")
    return frame, size


#: "no acknowledgement yet" (a delivered exchange may answer ``None``).
NO_ACK = object()

#: replies the receiver keeps per peer.  A sender retransmits only the
#: requests it still waits on (one nested chain deep), and anything
#: older is answered by the host's durable ``_seen_requests``.
REPLY_WINDOW = 1024


class ReliableChannel:
    """Sans-I/O reliable delivery: it never touches a socket or clock.

    The sender stamps messages and runs the ack/retry schedule over the
    ``send`` and ``wait`` its backend injects; the receiver executes
    each request once and releases control transfers in channel order.
    """

    def __init__(
        self, emit: Callable[[str, Optional[str], Optional[str], str], None]
    ) -> None:
        self._emit = emit
        self.reset()

    def reset(self, msg_id_floor: int = 1) -> None:
        self.msg_ids = itertools.count(msg_id_floor)
        #: (src, dst) -> last sequence number stamped on that channel.
        self.seq: Counter = Counter()
        self._cseq: Counter = Counter()
        #: receiver: src -> next expected control sequence number, and
        #: the out-of-order control transfers held back until then.
        self._expected: Dict[str, int] = {}
        self._holdback: Dict[str, Dict[int, Message]] = {}
        #: receiver: src -> {msg_id: reply} (the last REPLY_WINDOW), and
        #: the (src, msg_id) requests whose first execution is running.
        self._served: Dict[str, Dict[int, Any]] = {}
        self._serving: set = set()

    # -- sender -----------------------------------------------------------

    def stamp(self, message: Message) -> None:
        """Assign the idempotency key and channel sequence number."""
        if message.msg_id is None:
            message.msg_id = next(self.msg_ids)
            channel = (message.src, message.dst)
            self.seq[channel] += 1
            message.seq = self.seq[channel]

    def control_seq(self, message: Message) -> int:
        """The next control sequence number on ``message``'s channel."""
        channel = (message.src, message.dst)
        self._cseq[channel] += 1
        return self._cseq[channel]

    def deliver(
        self,
        message: Message,
        send: Callable[[], Any],
        wait: Callable[[float], Any],
        retry,
    ) -> Any:
        """Run ``retry``'s schedule for one stamped message: ``send()``
        transmits a copy, ``wait(timer)`` lets the backend's clock run;
        each returns the exchange's result, or :data:`NO_ACK`."""
        attempt = 0
        waited = 0.0
        while True:
            result = send()
            if result is not NO_ACK:
                return result
            timer = retry.timeout(attempt)
            result = wait(timer)
            if result is not NO_ACK:
                return result
            waited += timer
            attempt += 1
            if attempt > retry.max_retries or retry.past_deadline(waited):
                self._emit(
                    "timeout", message.src, message.dst,
                    f"{message.kind} #{message.msg_id} gave up after "
                    f"{attempt} attempts ({waited:.3f}s of timers)",
                )
                raise DeliveryTimeoutError(message, attempt)
            self._emit(
                "retry", message.src, message.dst,
                f"{message.kind} #{message.msg_id} attempt {attempt + 1}",
            )

    # -- receiver ---------------------------------------------------------

    def serve(self, src: str, msg_id: int, execute: Callable[[], Any]) -> Any:
        """``execute()``'s reply, computed once per ``(src, msg_id)``: a
        retransmission gets the cached reply, or ``None`` while the
        first execution is still running."""
        window = self._served.setdefault(src, {})
        cached = window.get(msg_id)
        if cached is not None:
            return cached
        key = (src, msg_id)
        if key in self._serving:
            return None
        self._serving.add(key)
        try:
            reply = execute()
        finally:
            self._serving.discard(key)
        window[msg_id] = reply
        if len(window) > REPLY_WINDOW:
            del window[next(iter(window))]
        return reply

    def release(self, message: Message, cseq: int) -> List[Message]:
        """Accept a control transfer; return those now deliverable in
        channel order (duplicates are absorbed)."""
        src = message.src
        expected = self._expected.get(src, 1)
        if cseq < expected:
            return []
        hold = self._holdback.setdefault(src, {})
        hold[cseq] = message
        ready = []
        while expected in hold:
            ready.append(hold.pop(expected))
            expected += 1
        self._expected[src] = expected
        return ready


class Transport:
    """Shared transport core: accounting, quarantine, events, queues.

    Subclasses implement actual delivery (:meth:`request`,
    :meth:`one_way`, :meth:`post`, :meth:`register`); everything a
    backend must account identically lives here so the Table 1
    observables cannot depend on which wire carried the messages.
    """

    def __init__(self, cost_model: Optional[CostModel] = None) -> None:
        self.cost = cost_model or CostModel()
        self.clock = 0.0
        #: time spent validating incoming requests (Section 7.3).
        self.check_time = 0.0
        #: time spent hashing tokens (Section 7.3).
        self.hash_time = 0.0
        self.counts: Counter = Counter()
        self.eliminated_roundtrips = 0
        self.audit_log: List[str] = []
        #: (label, host) pairs: data with this label became visible to host.
        self.flow_log: List = []
        #: fault injector; ``None`` on backends (or runs) without one.
        #: Hosts consult this to decide whether to materialize durable
        #: stores, so every Transport exposes it.
        self.faults = None
        #: (kind, src, dst, detail) tuples for drop/retry/crash/restart/...
        self.fault_events: List[Tuple[str, Optional[str], Optional[str], str]] = []
        self.fault_counts: Counter = Counter()
        self._listeners: List[Callable[..., None]] = []
        self.channel = ReliableChannel(self._emit)
        self._queue: Deque[Message] = deque()
        #: quarantine layer: off by default (rejected requests are
        #: silently ignored, the paper's Figure 6 behaviour).  When on,
        #: a rejected *remote* request raises :class:`SecurityAbort` and
        #: blacklists the offender.
        self.quarantine_enabled = False
        self.quarantined: set = set()

    # -- delivery contract (backend-specific) ----------------------------------

    def register(
        self,
        host: str,
        handler: Callable[[Message], Any],
        on_crash: Optional[Callable[[], None]] = None,
        on_restart: Optional[Callable[[], None]] = None,
    ) -> None:
        raise NotImplementedError

    def request(self, message: Message) -> Any:
        """A request/reply exchange (getField, setField, forward, sync).

        Counts two messages (the paper's "×2" rows), except local calls,
        which never touch the network.
        """
        raise NotImplementedError

    def one_way(self, message: Message, messages: int = 1) -> Any:
        """A one-message exchange (asynchronous forward at opt level 2)."""
        raise NotImplementedError

    def post(self, message: Message) -> None:
        """Queue a control transfer (rgoto/lgoto) for the executor loop."""
        raise NotImplementedError

    # -- control queue ---------------------------------------------------------

    def pop_control(self) -> Optional[Message]:
        return self._queue.popleft() if self._queue else None

    @property
    def pending_control(self) -> int:
        return len(self._queue)

    # -- reset-in-place --------------------------------------------------------

    def reset_run_state(self) -> None:
        """Clear every piece of per-run state: clock, counts, logs, the
        reliable channel, the control queue, fault events, the
        quarantine set, and every event subscriber, so a recycled
        session neither feeds nor is fed by an earlier run's recorder.
        """
        self.clock = 0.0
        self.check_time = 0.0
        self.hash_time = 0.0
        self.counts.clear()
        self.eliminated_roundtrips = 0
        self.audit_log.clear()
        self.flow_log.clear()
        self.fault_events.clear()
        self.fault_counts.clear()
        self._listeners.clear()
        self.channel.reset()
        self._queue.clear()
        self.quarantine_enabled = False
        self.quarantined.clear()

    # -- accounting helpers ------------------------------------------------------

    def _account(self, message: Message, messages: int) -> None:
        self.counts[message.kind] += 1
        self.counts["messages"] += messages
        if message.src != message.dst:
            self.clock += messages * self.cost.one_way_latency
        if self._listeners:
            for callback in self._listeners:
                callback(message.kind, message.src, message.dst, message)

    def charge_check(self) -> None:
        self.clock += self.cost.check_cost
        self.check_time += self.cost.check_cost

    def charge_hash(self) -> None:
        self.clock += self.cost.hash_cost
        self.hash_time += self.cost.hash_cost

    def charge_ops(self, count: int) -> None:
        self.clock += count * self.cost.op_cost

    def note_eliminated(self, count: int) -> None:
        self.eliminated_roundtrips += count

    def audit(self, host: str, why: str) -> None:
        self.audit_log.append(f"{host}: {why}")

    def flow(self, label, host: str) -> None:
        """Record that data labeled ``label`` became visible to ``host``."""
        self.flow_log.append((label, host))

    # -- quarantine --------------------------------------------------------------

    def quarantine(
        self,
        offender: str,
        victim: str,
        why: str,
        message: Optional[Message] = None,
    ) -> None:
        """Blacklist ``offender`` and unwind the run with
        :class:`SecurityAbort` (only called when ``quarantine_enabled``).
        ``message`` (when the violation is tied to one) stamps the
        abort with its channel/seq/kind context."""
        self.audit(victim, f"quarantining {offender}: {why}")
        self._emit("quarantine", offender, victim, why)
        self.quarantined.add(offender)
        raise SecurityAbort(offender, victim, why, message=message)

    def _check_quarantine(self, message: Message) -> None:
        """Refuse a send from a quarantined host (called only while the
        quarantine layer is on)."""
        if message.src in self.quarantined:
            raise SecurityAbort(
                message.src,
                message.dst,
                f"{message.kind} refused: {message.src} is quarantined",
                message=message,
            )

    # -- events ------------------------------------------------------------------

    def on_event(self, callback: Callable[..., None]) -> None:
        """Subscribe to every accounted message and every fault event:
        ``callback(kind, src, dst, detail)``, where ``detail`` is the
        :class:`Message` itself for a message and a string for a fault.
        Nothing is built or kept for a run no one subscribes to; a
        reset drops every subscriber."""
        self._listeners.append(callback)

    def _emit(
        self, kind: str, src: Optional[str], dst: Optional[str], detail: str
    ) -> None:
        self.fault_events.append((kind, src, dst, detail))
        self.fault_counts[kind] += 1
        for callback in self._listeners:
            callback(kind, src, dst, detail)

    # -- reporting ------------------------------------------------------------------

    def table_counts(self) -> Dict[str, int]:
        """The Table 1 accounting: round-trip kinds reported singly
        (each costs two messages), control kinds as message counts."""
        counts = self.counts
        table = {kind: counts.get(kind, 0) for kind in TABLE_KINDS}
        table["total_messages"] = counts.get("messages", 0)
        table["eliminated"] = self.eliminated_roundtrips
        return table
